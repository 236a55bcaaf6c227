package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleStats(t *testing.T) {
	var s Sample
	for _, x := range []float64{4, 1, 3, 2, 5} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Percentile(50) != 3 {
		t.Errorf("P50 = %v", s.Percentile(50))
	}
	if got := s.Percentile(100); got != 5 {
		t.Errorf("P100 = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
}

func TestSampleEmptyIsNaN(t *testing.T) {
	var s Sample
	for name, f := range map[string]func() float64{
		"Mean": s.Mean, "Min": s.Min, "Max": s.Max, "P50": func() float64 { return s.Percentile(50) },
	} {
		if !math.IsNaN(f()) {
			t.Errorf("%s of empty sample is not NaN", name)
		}
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	err := quick.Check(func(xs []float64, p8 uint8) bool {
		var s Sample
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				s.Add(x)
			}
		}
		if s.N() == 0 {
			return true
		}
		p := float64(p8) / 255 * 100
		v := s.Percentile(p)
		return v >= s.Min() && v <= s.Max()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCPUAccount(t *testing.T) {
	a := NewCPUAccount()
	a.Charge("crypto", 10*time.Millisecond)
	a.Charge("stack", 5*time.Millisecond)
	a.Charge("crypto", 10*time.Millisecond)
	if a.Total() != 25*time.Millisecond {
		t.Fatalf("Total = %v", a.Total())
	}
	if a.Category("crypto") != 20*time.Millisecond {
		t.Fatalf("crypto = %v", a.Category("crypto"))
	}
	cats := a.Categories()
	if len(cats) != 2 || cats[0] != "crypto" || cats[1] != "stack" {
		t.Fatalf("Categories = %v", cats)
	}
}

// A resolved meter charges its category, and a category nobody charged
// stays out of Categories: Fig 9c lists what ran, not what
// was wired up.
func TestCPUMeter(t *testing.T) {
	a := NewCPUAccount()
	vswitch, stack := a.Meter("vswitch"), a.Meter("stack")
	if cats := a.Categories(); len(cats) != 0 {
		t.Fatalf("Categories = %v before any charge", cats)
	}
	vswitch.Charge(3 * time.Microsecond)
	a.Charge("vswitch", time.Microsecond)
	if a.Category("vswitch") != 4*time.Microsecond || a.Category("stack") != 0 || a.Total() != 4*time.Microsecond {
		t.Fatalf("vswitch = %v, stack = %v, total = %v", a.Category("vswitch"), a.Category("stack"), a.Total())
	}
	if cats := a.Categories(); len(cats) != 1 || cats[0] != "vswitch" {
		t.Fatalf("Categories = %v, want [vswitch]", cats)
	}
	stack.Charge(0)
	if cats := a.Categories(); len(cats) != 2 {
		t.Fatalf("Categories = %v after a zero charge, want both", cats)
	}
}

func TestCPUAccountNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge did not panic")
		}
	}()
	NewCPUAccount().Charge("x", -1)
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("scheme", "mbps")
	tb.AddRow("TCP", 941.23456)
	tb.AddRow("MIC-TCP", 935.0)
	out := tb.String()
	if !strings.Contains(out, "scheme") || !strings.Contains(out, "941.23") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	// All rows align to the same width.
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("misaligned header/separator:\n%s", out)
	}
}

func TestTableNaNRendersDash(t *testing.T) {
	tb := NewTable("v")
	tb.AddRow(math.NaN())
	if !strings.Contains(tb.String(), "-") {
		t.Fatal("NaN did not render as dash")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("x,y", 1.5)
	tb.AddRow(`quote"me`, 2.0)
	csv := tb.CSV()
	want := "a,b\n\"x,y\",1.50\n\"quote\"\"me\",2.00\n"
	if csv != want {
		t.Fatalf("CSV =\n%q\nwant\n%q", csv, want)
	}
}

func TestCountersOrderAndRendering(t *testing.T) {
	c := NewCounters()
	c.Set("takeovers", 0)
	c.Set("heartbeats_sent", 5)
	c.Set("takeovers", 1)
	c.Set("rules_reinstalled", 7)
	if got := c.Get("heartbeats_sent"); got != 5 {
		t.Fatalf("Get(heartbeats_sent) = %d, want 5", got)
	}
	if got := c.Get("absent"); got != 0 {
		t.Fatalf("Get(absent) = %d, want 0", got)
	}
	// Order is first-use, not alphabetical, and a second Set must not
	// re-register the name.
	const rendered = "takeovers=1\nheartbeats_sent=5\nrules_reinstalled=7\n"
	if got := c.String(); got != rendered {
		t.Fatalf("String() = %q, want %q", got, rendered)
	}
}

// Min returns the smallest observation, or NaN when empty.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
