package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"dap/internal/runner"
)

// decTestConfig is the shortened DAP run the decision-introspection tests
// simulate (twice, for the identity checks), per architecture.
func decTestConfig(arch Arch) Config {
	cfg := obsTestConfig()
	cfg.CPU.Cores = 2
	cfg.Arch = arch
	return cfg
}

var decArchs = []struct {
	name string
	arch Arch
}{
	{"sectored", SectoredDRAM},
	{"alloy", AlloyCache},
	{"edram", SectoredEDRAM},
}

// TestDecisionRecordingIsBitIdentical is the tentpole guarantee of this
// layer: the recorder reads the partitioner's already-solved state at window
// rollover and must never feed back — stats.Run with recording enabled is
// bit-identical to the uninstrumented run, on every solver variant.
func TestDecisionRecordingIsBitIdentical(t *testing.T) {
	for _, tc := range decArchs {
		t.Run(tc.name, func(t *testing.T) {
			mix := traceableMix(2)
			base := decTestConfig(tc.arch)
			inst := base
			inst.Decisions = true

			plain := RunMix(base, mix)
			rec := RunMix(inst, mix)
			if plain.Abort != nil || rec.Abort != nil {
				t.Fatalf("aborted runs: plain=%v rec=%v", plain.Abort, rec.Abort)
			}
			if !reflect.DeepEqual(plain.Run, rec.Run) {
				t.Errorf("stats.Run differs with decision recording enabled")
				if plain.Cycles != rec.Cycles {
					t.Errorf("cycles: plain=%d rec=%d", plain.Cycles, rec.Cycles)
				}
			}
			if plain.Decisions != nil {
				t.Error("uninstrumented run carries a recorder")
			}

			// The recorder must have seen every window with well-formed
			// records: gaps in [0,1], one fraction per source, fractions
			// summing to one (or all-zero on an idle window).
			recs := rec.Decisions.Records()
			if len(recs) == 0 {
				t.Fatal("no decision records")
			}
			srcs := rec.Decisions.SourceNames()
			var granted int64
			for i, r := range recs {
				if r.Gap < 0 || r.Gap > 1 {
					t.Fatalf("record %d: gap %v outside [0,1]", i, r.Gap)
				}
				if len(r.Fractions) != len(srcs) || len(r.Optimal) != len(srcs) {
					t.Fatalf("record %d: %d fractions / %d optimal for %d sources",
						i, len(r.Fractions), len(r.Optimal), len(srcs))
				}
				sum := 0.0
				for _, f := range r.Fractions {
					sum += f
				}
				if sum != 0 && math.Abs(sum-1) > 1e-9 {
					t.Fatalf("record %d: fractions sum to %v", i, sum)
				}
				granted += r.FWB + r.WB + r.IFRM + r.SFRM + r.WT
			}
			// Records hold granted credits; stats.DAPDecisions counts consumed
			// applications. Consumption implies some window granted credit.
			if rec.Run.DAP.Total() > 0 && granted == 0 {
				t.Error("techniques applied but no window granted any credit")
			}

			// Both export encodings must round out valid and non-empty.
			var jl bytes.Buffer
			if err := rec.Decisions.WriteJSONL(&jl); err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(strings.TrimSpace(jl.String()), "\n") {
				if !json.Valid([]byte(line)) {
					t.Fatalf("invalid JSONL line: %s", line)
				}
			}
			var csv bytes.Buffer
			if err := rec.Decisions.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			header := strings.SplitN(csv.String(), "\n", 2)[0]
			for _, col := range []string{"cycle", "fwb", "gap", "frac_" + srcs[0]} {
				if !strings.Contains(header, col) {
					t.Errorf("decision CSV header missing %q: %s", col, header)
				}
			}

			// The merged Chrome trace must stay valid JSON and carry the
			// counter tracks even with span tracing off.
			var tr bytes.Buffer
			if err := rec.WriteTrace(&tr); err != nil {
				t.Fatal(err)
			}
			if !json.Valid(tr.Bytes()) {
				t.Error("merged Chrome trace is not valid JSON")
			}
			if !bytes.Contains(tr.Bytes(), []byte(`"dap.gap"`)) {
				t.Error("merged Chrome trace missing the dap.gap counter track")
			}
		})
	}
}

// TestDecisionsSerialParallelIdentical is the parallel-runner regression:
// fanning the three architectures across eight workers must reproduce the
// serial per-window records and aggregate decision counters exactly.
func TestDecisionsSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	mix := traceableMix(2)
	sweep := func(parallel int) []Result {
		return runner.Map(parallel, len(decArchs), func(i int) Result {
			cfg := decTestConfig(decArchs[i].arch)
			cfg.Decisions = true
			return RunMix(cfg, mix)
		})
	}
	ser := sweep(1)
	par := sweep(8)
	for i := range decArchs {
		if ser[i].Abort != nil || par[i].Abort != nil {
			t.Fatalf("%s: aborted runs: serial=%v parallel=%v",
				decArchs[i].name, ser[i].Abort, par[i].Abort)
		}
		if !reflect.DeepEqual(ser[i].Run.DAP, par[i].Run.DAP) {
			t.Errorf("%s: stats.DAPDecisions differ: serial=%+v parallel=%+v",
				decArchs[i].name, ser[i].Run.DAP, par[i].Run.DAP)
		}
		if !reflect.DeepEqual(ser[i].Decisions.Records(), par[i].Decisions.Records()) {
			t.Errorf("%s: per-window decision records differ between serial and parallel runs",
				decArchs[i].name)
		}
		if !reflect.DeepEqual(ser[i].Decisions.Events(), par[i].Decisions.Events()) {
			t.Errorf("%s: policy events differ between serial and parallel runs",
				decArchs[i].name)
		}
	}
}

// TestFigGapReportsAllArchitectures smoke-checks the introspection driver:
// every (architecture, mix) point must carry a non-empty gap series with
// ordered quantiles inside [0,1].
func TestFigGapReportsAllArchitectures(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	fig := FigGap(Options{Quick: true, Parallel: 4, tiny: true})
	if len(fig.Series) != 6 {
		t.Fatalf("want 6 series, got %d", len(fig.Series))
	}
	windows, p50, p90, p99 := fig.Series[0], fig.Series[3], fig.Series[4], fig.Series[5]
	if len(windows.Values) != 3 {
		t.Fatalf("want one point per architecture, got %d: %v", len(windows.Values), windows.Names)
	}
	for i, name := range windows.Names {
		if windows.Values[i] <= 0 {
			t.Errorf("%s: no decision windows recorded", name)
		}
		if p50.Values[i] < 0 || p99.Values[i] > 1 {
			t.Errorf("%s: quantiles outside [0,1]: p50=%v p99=%v", name, p50.Values[i], p99.Values[i])
		}
		if p50.Values[i] > p90.Values[i] || p90.Values[i] > p99.Values[i] {
			t.Errorf("%s: quantiles not monotone: %v %v %v", name, p50.Values[i], p90.Values[i], p99.Values[i])
		}
	}
}
