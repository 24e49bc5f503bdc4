package harness

import (
	"fmt"

	"dap/internal/dram"
	"dap/internal/mem"
	"dap/internal/mscache"
	"dap/internal/sim"
	"dap/internal/stats"
	"dap/internal/telemetry"
)

// Auditor counters on the process-wide telemetry registry: total sweeps
// performed and invariant violations found. Published via lock-free
// handles, so audit mode stays a strict observer of the simulation.
var (
	auditChecks     = telemetry.Default.Counter("harness_audit_checks_total", "Invariant audit sweeps completed across all runs.")
	auditViolations = telemetry.Default.Counter("harness_audit_violations_total", "Invariant violations detected by the runtime auditor.")
)

// AuditError reports the first runtime invariant violation the auditor
// found, with the cycle and the check that caught it.
type AuditError struct {
	Cycle mem.Cycle
	Check string
	Err   error
}

func (e *AuditError) Error() string {
	return fmt.Sprintf("audit: %s invariant violated at cycle %d: %v", e.Check, e.Cycle, e.Err)
}

func (e *AuditError) Unwrap() error { return e.Err }

// auditable is implemented by controllers whose internal structures can be
// structurally checked (the sector caches: dirty mask ⊆ valid mask).
type auditable interface {
	AuditInvariants() error
}

// reqCounter wraps the memory-side controller in audit mode to track
// request conservation: every demand/prefetch read issued by the cores must
// be either completed or still in flight, and never completed twice. It is
// a pure pass-through — counting only — so enabling audit mode cannot
// change simulated behavior.
type reqCounter struct {
	inner mscache.Controller
	eng   *sim.Engine

	Issued    uint64
	Completed uint64
}

// InFlight returns the reads issued but not yet completed.
func (rc *reqCounter) InFlight() uint64 { return rc.Issued - rc.Completed }

func (rc *reqCounter) Read(a mem.Addr, c int, k mem.Kind, done func(mem.Cycle)) {
	if done == nil {
		rc.inner.Read(a, c, k, nil)
		return
	}
	rc.Issued++
	completed := false
	rc.inner.Read(a, c, k, func(t mem.Cycle) {
		if completed {
			rc.eng.Fail(&AuditError{Cycle: rc.eng.Now(), Check: "conservation",
				Err: fmt.Errorf("read of %#x (core %d) completed twice", a, c)})
			return
		}
		completed = true
		rc.Completed++
		done(t)
	})
}

func (rc *reqCounter) Writeback(a mem.Addr, c int)     { rc.inner.Writeback(a, c) }
func (rc *reqCounter) WarmRead(a mem.Addr, c int)      { rc.inner.WarmRead(a, c) }
func (rc *reqCounter) WarmWriteback(a mem.Addr, c int) { rc.inner.WarmWriteback(a, c) }
func (rc *reqCounter) MSStats() *stats.MemSideStats    { return rc.inner.MSStats() }
func (rc *reqCounter) CacheCAS() uint64                { return rc.inner.CacheCAS() }
func (rc *reqCounter) ResetStats()                     { rc.inner.ResetStats() }

// reservationHorizon mirrors the DRAM channel's scheduling horizon: a CAS
// may be reserved up to this many cycles ahead of now, so a window's CAS
// count can legitimately exceed the elapsed-time allowance by one horizon's
// worth of slack.
const reservationHorizon = 256

// startAudit arms the runtime invariant auditor: a periodic event that
// checks, every cfg.AuditEvery cycles (default 4096):
//
//   - DAP credit counters stay within [0, cap] (a corrupted update is
//     caught within one window);
//   - request conservation (issued == completed + in-flight, via the
//     reqCounter wrapper, which also catches double completions inline);
//   - delivered bandwidth per source never exceeds its peak — each device's
//     CAS delta over the window must fit the window's line budget;
//   - sector-cache metadata consistency (dirty mask ⊆ valid mask);
//   - CPU core-model structure (ROB window, fetch ordering, prefetch
//     accounting).
//
// The first violation aborts the run via Engine.Fail with an *AuditError
// carrying the cycle and check name.
func (s *System) startAudit() {
	a := &auditor{s: s, every: s.Cfg.AuditEvery, devs: s.devices(), lastCycle: s.Eng.Now()}
	if a.every == 0 {
		a.every = 4096
	}
	a.lastCAS = make([]uint64, len(a.devs))
	for i, d := range a.devs {
		a.lastCAS[i] = d.Stats().CAS()
	}
	s.Eng.AfterArg(a.every, auditTick, a, 0)
}

// auditor is the state the periodic audit event carries between windows.
type auditor struct {
	s         *System
	every     mem.Cycle
	devs      []*dram.Device
	lastCAS   []uint64
	lastCycle mem.Cycle
}

// auditTick runs one audit window and, when every check passes, schedules
// the next one; the first violation fails the engine instead.
func auditTick(ctx any, _ uint64, now mem.Cycle) {
	a := ctx.(*auditor)
	auditChecks.Inc()
	if name, err := a.check(now); err != nil {
		auditViolations.Inc()
		a.s.Eng.Fail(&AuditError{Cycle: now, Check: name, Err: err})
		return
	}
	a.s.Eng.AfterArg(a.every, auditTick, a, 0)
}

// check runs every invariant once, returning the failing check's name and
// error.
func (a *auditor) check(now mem.Cycle) (string, error) {
	s := a.s
	if s.dap != nil {
		if err := s.dap.AuditCredits(); err != nil {
			return "dap-credits", err
		}
	}
	if au, ok := s.Ctrl.(auditable); ok {
		if err := au.AuditInvariants(); err != nil {
			return "cache-metadata", err
		}
	}
	if err := s.CPU.AuditInvariants(); err != nil {
		return "cpu-structure", err
	}
	dt := float64(now-a.lastCycle) + reservationHorizon
	for i, d := range a.devs {
		cas := d.Stats().CAS()
		delta := float64(cas - a.lastCAS[i])
		if allowed := mem.AccessesPerCycle(d.Cfg.PeakGBps())*dt + 8; delta > allowed {
			return "bandwidth-ceiling", fmt.Errorf(
				"%s delivered %.0f lines in a %.0f-cycle window, peak allows %.0f",
				d.Cfg.Name, delta, dt, allowed)
		}
		a.lastCAS[i] = cas
	}
	a.lastCycle = now
	return "", nil
}
