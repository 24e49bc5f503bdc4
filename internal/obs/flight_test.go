package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"dap/internal/mem"
)

func TestFlightRecorderRing(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 1; i <= 6; i++ {
		fr.Addf(mem.Cycle(i*100), "note %d", i)
	}
	if fr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", fr.Len())
	}
	if fr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", fr.Dropped())
	}
	got := fr.Entries()
	for i, want := range []uint64{300, 400, 500, 600} {
		if got[i].Cycle != want {
			t.Fatalf("entry %d cycle = %d, want %d (all %v)", i, got[i].Cycle, want, got)
		}
	}

	d := fr.Dump("watchdog-stall", "cycle=600 pending=3")
	if d.Reason != "watchdog-stall" || len(d.Entries) != 4 || d.Dropped != 2 {
		t.Fatalf("dump = %+v", d)
	}
	if _, err := json.Marshal(d); err != nil {
		t.Fatalf("dump not JSON-serializable: %v", err)
	}

	var nilFR *FlightRecorder
	nilFR.Add(1, "x")
	nilFR.Addf(1, "y")
	if nilFR.Len() != 0 || nilFR.Entries() != nil || nilFR.Dump("r", "s") != nil {
		t.Fatal("nil recorder not inert")
	}
}

func TestFlightErrorUnwrap(t *testing.T) {
	base := errors.New("engine stalled")
	fe := &FlightError{Dump: &FlightDump{Reason: "watchdog-stall"}, Err: base}
	if !errors.Is(fe, base) {
		t.Fatal("FlightError does not unwrap to its cause")
	}
	var got *FlightError
	if !errors.As(error(fe), &got) || got.Dump.Reason != "watchdog-stall" {
		t.Fatal("errors.As failed to recover the FlightError")
	}
}

func TestLoggingContextHelpers(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "debug", "json")
	ctx := WithLogger(context.Background(), l)
	LoggerFrom(ctx).Info("hello", "corr", "fp-mcf-s0")
	if !strings.Contains(buf.String(), `"corr":"fp-mcf-s0"`) {
		t.Fatalf("log record missing corr: %s", buf.String())
	}
	// absent logger degrades to silent, never nil
	if LoggerFrom(context.Background()) == nil || LoggerFrom(nil) == nil || OrNop(nil) == nil {
		t.Fatal("LoggerFrom/OrNop returned nil")
	}
	LoggerFrom(context.Background()).Info("discarded")

	// level filtering: warn logger drops info
	buf.Reset()
	wl := NewLogger(&buf, "warn", "text")
	wl.Info("nope")
	wl.Warn("yep")
	if strings.Contains(buf.String(), "nope") || !strings.Contains(buf.String(), "yep") {
		t.Fatalf("level filtering wrong: %s", buf.String())
	}
}
