package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestFigure1And2Quick(t *testing.T) {
	cfg := QuickConfig()
	eqCtr, eqSpace, err := Figure1And2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(cfg.Ks) * len(FigureMakers())
	if len(eqCtr) != wantRows || len(eqSpace) != wantRows {
		t.Fatalf("rows: %d, %d, want %d", len(eqCtr), len(eqSpace), wantRows)
	}
	for _, r := range append(eqCtr, eqSpace...) {
		if r.Seconds <= 0 || r.MUpdates <= 0 || r.Bytes <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
		if r.MaxErr < 0 {
			t.Errorf("negative error %+v", r)
		}
	}
	// Equal-space: every algorithm's bytes fit the SMED budget and come
	// reasonably close to it.
	for _, r := range eqSpace {
		budget := NewSMED(r.KRef).SizeBytes()
		if r.Bytes > budget {
			t.Errorf("%s at kref %d: %d bytes exceeds budget %d", r.Algo, r.KRef, r.Bytes, budget)
		}
	}
	// Paper shape at equal space: SMED strictly faster than RBMC (the 20x
	// claim leaves enormous margin even at CI scale).
	series := map[string]map[int]RunRow{}
	for _, r := range eqSpace {
		if series[r.Algo] == nil {
			series[r.Algo] = map[int]RunRow{}
		}
		series[r.Algo][r.KRef] = r
	}
	for _, k := range cfg.Ks {
		if smed, rbmc := series["SMED"][k], series["RBMC"][k]; smed.Seconds*2 > rbmc.Seconds {
			t.Errorf("k=%d: SMED %.3fs not clearly faster than RBMC %.3fs", k, smed.Seconds, rbmc.Seconds)
		}
	}
	// Printing works.
	var buf bytes.Buffer
	PrintRunRows(&buf, "t", eqCtr)
	PrintSpeedups(&buf, eqSpace)
	if !strings.Contains(buf.String(), "SMED") {
		t.Error("print output missing series")
	}
}

func TestFigure3Quick(t *testing.T) {
	cfg := QuickConfig()
	cfg.Ks = cfg.Ks[:1]
	rows, err := Figure3(cfg, []float64{0, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	// Error grows (weakly) with quantile on the same stream; allow noise
	// but q=0.9 should not beat q=0 (SMIN).
	if rows[2].MaxErr < rows[0].MaxErr {
		t.Errorf("q=0.9 error %d below SMIN error %d", rows[2].MaxErr, rows[0].MaxErr)
	}
	if def := Quantiles(); len(def) != 50 || def[0] != 0 || def[49] != 0.98 {
		t.Errorf("default quantiles malformed: %v", def)
	}
}

func TestFigure4Quick(t *testing.T) {
	cfg := QuickConfig()
	rows, err := Figure4(cfg, []int{256})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	byMethod := map[string]MergeRow{}
	for _, r := range rows {
		byMethod[r.Method] = r
		if r.Seconds <= 0 || r.Pairs != cfg.MergePairs {
			t.Errorf("degenerate %+v", r)
		}
	}
	for _, m := range []string{"Ours", "ACH+13", "Hoa61"} {
		if _, ok := byMethod[m]; !ok {
			t.Errorf("missing method %s", m)
		}
	}
	// §4.5: merge errors agree within a small factor across methods.
	if a, b := byMethod["Ours"].MaxErr, byMethod["ACH+13"].MaxErr; a > 3*b+1 || b > 3*a+1 {
		t.Errorf("merge errors diverge: ours %d vs ACH %d", a, b)
	}
	var buf bytes.Buffer
	PrintMergeRows(&buf, rows)
	if !strings.Contains(buf.String(), "Hoa61") {
		t.Error("print output")
	}
}

func TestSpaceTableQuick(t *testing.T) {
	cfg := QuickConfig()
	rows, err := SpaceTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Bytes <= 0 || r.VsExact <= 0 {
			t.Errorf("degenerate %+v", r)
		}
		// §2.3.3: the paper's summary costs 24 bytes per counter when
		// 4k/3 is a power of two, more otherwise (rounding up), and MHE
		// strictly more than SMED.
		if r.Algo == "SMED" && (r.PerCtr < 23.9 || r.PerCtr > 49) {
			t.Errorf("SMED bytes per counter %.1f", r.PerCtr)
		}
	}
	byAlgo := map[string]SpaceRow{}
	for _, r := range rows {
		if r.K == cfg.Ks[0] {
			byAlgo[r.Algo] = r
		}
	}
	if byAlgo["MHE"].Bytes <= byAlgo["SMED"].Bytes {
		t.Error("MHE should use more space than SMED at equal k")
	}
	var buf bytes.Buffer
	PrintSpaceRows(&buf, rows)
	if buf.Len() == 0 {
		t.Error("print")
	}
}

func TestAccuracyTableQuick(t *testing.T) {
	cfg := QuickConfig()
	cfg.Packets = 60_000
	cfg.Ks = []int{512}
	rows, err := AccuracyTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if !r.Holds {
			t.Errorf("guarantee violated: %+v", r)
		}
	}
	var buf bytes.Buffer
	PrintAccuracyRows(&buf, rows)
	if buf.Len() == 0 {
		t.Error("print")
	}
}

func TestInitialExperimentsQuick(t *testing.T) {
	cfg := QuickConfig()
	rows, err := InitialExperiments(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows %d", len(rows))
	}
	var smed, cm, smedU, gkU InitialRow
	for _, r := range rows {
		switch r.Algo {
		case "SMED":
			smed = r
		case "CountMin":
			cm = r
		case "SMED(unit)":
			smedU = r
		case "GK(unit)":
			gkU = r
		}
	}
	// The §1.3 finding: counter-based beats linear sketches on error at
	// equal bytes (speed too, but CI timing noise makes that flaky).
	if smed.MaxErr >= cm.MaxErr {
		t.Errorf("SMED error %d not below CountMin error %d at equal bytes", smed.MaxErr, cm.MaxErr)
	}
	// ... and beats the quantile class on unit streams: GK error is no
	// better despite comparable-or-larger space, and GK is slower.
	if smedU.MaxErr > gkU.MaxErr {
		t.Errorf("SMED(unit) error %d above GK error %d", smedU.MaxErr, gkU.MaxErr)
	}
	if smedU.Seconds > gkU.Seconds {
		t.Errorf("SMED(unit) %.3fs slower than GK %.3fs", smedU.Seconds, gkU.Seconds)
	}
	var buf bytes.Buffer
	PrintInitialRows(&buf, rows)
	if buf.Len() == 0 {
		t.Error("print")
	}
}

func TestEqualSpaceCounters(t *testing.T) {
	// For SMED itself the equal-space budget returns (at least) kRef.
	k := 1536
	budget := NewSMED(k).SizeBytes()
	if got := EqualSpaceCounters(NewSMED, budget); got < k {
		t.Errorf("EqualSpaceCounters(SMED) = %d < %d", got, k)
	}
	// MHE fits strictly fewer counters in the same budget.
	if got := EqualSpaceCounters(NewMHE, budget); got >= k {
		t.Errorf("EqualSpaceCounters(MHE) = %d, want < %d", got, k)
	}
}

func TestAuxAlgoConstructors(t *testing.T) {
	for _, mk := range []func(int) Algo{NewSMED, NewSMIN, NewRBMC, NewMHE} {
		a := mk(64)
		a.Update(1, 10)
		a.Update(1, 5)
		if a.Estimate(1) != 15 {
			t.Errorf("%s: estimate %d", a.Name(), a.Estimate(1))
		}
		if a.SizeBytes() <= 0 || a.Name() == "" {
			t.Errorf("%s metadata", a.Name())
		}
	}
	q := NewQuantile(64, 0.25)
	q.Update(2, 7)
	if q.Estimate(2) != 7 {
		t.Error("quantile algo")
	}
	q0 := NewQuantile(64, 0)
	q0.Update(2, 7)
	if q0.Estimate(2) != 7 {
		t.Error("quantile-0 algo")
	}
}
