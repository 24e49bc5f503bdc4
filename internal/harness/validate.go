package harness

import (
	"dap/internal/check"
)

// Validate checks the full system configuration, aggregating the diagnostics
// of every sub-configuration (CPU, main memory, the selected cache
// architecture, DAP override, fault plan) into one check.Errors value with
// dotted field paths, so a misconfigured experiment reports every problem at
// once instead of panicking on the first.
func (c *Config) Validate() error {
	var errs check.Collector

	errs.Sub("CPU", c.CPU.Validate())
	errs.Sub("MainMemory", c.MainMemory.Validate())

	switch c.Arch {
	case SectoredDRAM:
		errs.Sub("Sectored", c.Sectored.Validate())
	case AlloyCache:
		errs.Sub("Alloy", c.Alloy.Validate())
	case SectoredEDRAM:
		errs.Sub("EDRAM", c.EDRAM.Validate())
	case NoMSCache:
		// nothing cache-side to validate
	default:
		errs.Addf("Arch", int(c.Arch), "unknown architecture")
	}

	switch c.Policy {
	case Baseline:
	case DAP, DAPFWBWB:
		if c.Arch == NoMSCache {
			errs.Addf("Policy", c.Policy.String(),
				"access partitioning needs a memory-side cache (Arch is NoMSCache)")
		}
	case SBD, SBDWT, BATMAN:
		if c.Arch != SectoredDRAM {
			errs.Addf("Policy", c.Policy.String(),
				"only implemented on the sectored DRAM cache (Arch SectoredDRAM)")
		}
	default:
		errs.Addf("Policy", int(c.Policy), "unknown policy")
	}

	if c.DAPOverride != nil {
		errs.Sub("DAPOverride", c.DAPOverride.Validate())
	}
	if c.ThreadAwareIFRM && c.DAPOverride != nil && c.DAPOverride.ThreadAware {
		// both paths would set the thread-aware tables; dapWithPolicy applies
		// ThreadAwareIFRM last, silently clobbering the override's tables
		errs.Addf("ThreadAwareIFRM", true, "conflicts with DAPOverride.ThreadAware (pick one)")
	}

	errs.NonNegative("WarmAccesses", c.WarmAccesses)
	if c.MeasureInstr == 0 {
		errs.Addf("MeasureInstr", c.MeasureInstr, "must be positive (cores would never finish)")
	}
	if c.AuditEvery > 0 && !c.Audit {
		errs.Addf("AuditEvery", c.AuditEvery, "set without Audit: the auditor would never run")
	}
	if c.Faults != nil {
		errs.Sub("Faults", c.Faults.Validate())
	}

	errs.NonNegative("TraceSample", c.TraceSample)
	if c.TraceSample > 0 && !c.Trace {
		errs.Addf("TraceSample", c.TraceSample, "set without Trace: the tracer would never run")
	}
	return errs.Err()
}
