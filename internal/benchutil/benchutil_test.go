package benchutil

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTimePositive(t *testing.T) {
	d := Time(func() { time.Sleep(time.Millisecond) })
	if d < time.Millisecond {
		t.Fatalf("Time = %v, want ≥ 1ms", d)
	}
}

func TestAvgTime(t *testing.T) {
	calls := 0
	AvgTime(5, func(i int) {
		if i != calls {
			t.Fatalf("index %d, want %d", i, calls)
		}
		calls++
	})
	if calls != 5 {
		t.Fatalf("calls = %d", calls)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AvgTime(0) should panic")
		}
	}()
	AvgTime(0, func(int) {})
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("x", "time")
	tb.AddRow(10, 1500*time.Microsecond)
	tb.AddRow(100000, 2*time.Second)
	tb.AddRow(5, 0.123456)
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + separator + 3 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "1.500ms") {
		t.Errorf("ms formatting missing:\n%s", out)
	}
	if !strings.Contains(out, "2.000s") {
		t.Errorf("s formatting missing:\n%s", out)
	}
	if !strings.Contains(out, "0.1235") {
		t.Errorf("float formatting missing:\n%s", out)
	}
	if tb.NumRows() != 3 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
}

func TestTableMicroseconds(t *testing.T) {
	tb := NewTable("t")
	tb.AddRow(42 * time.Microsecond)
	var sb strings.Builder
	tb.Fprint(&sb)
	if !strings.Contains(sb.String(), "42µs") {
		t.Fatalf("µs formatting missing:\n%s", sb.String())
	}
}

func TestFprintCSV(t *testing.T) {
	tb := NewTable("x", "label")
	tb.AddRow(1, "plain")
	tb.AddRow(2, "has, comma")
	var sb strings.Builder
	if err := tb.FprintCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "x,label\n1,plain\n2,\"has, comma\"\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestSweep(t *testing.T) {
	if got := Sweep(5, 0, 100); !reflect.DeepEqual(got, []int{0, 25, 50, 75, 100}) {
		t.Fatalf("Sweep = %v", got)
	}
	if got := Sweep(1, 7, 100); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("Sweep(1) = %v", got)
	}
	got := Sweep(7, 5, 35)
	if got[0] != 5 || got[len(got)-1] != 35 {
		t.Fatalf("Sweep endpoints = %v", got)
	}
}

// spin burns n units of CPU work the compiler cannot elide.
func spin(n int) {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
}

var spinSink uint64

// TestSpeedupGate checks the gate on bodies of known relative cost: a
// reference doing twice the production work measures about 2×, which
// clears a recorded 2× and fails a recorded 4×.
func TestSpeedupGate(t *testing.T) {
	ref := func(n int) {
		for i := 0; i < n; i++ {
			spin(20000)
		}
	}
	prod := func(n int) {
		for i := 0; i < n; i++ {
			spin(10000)
		}
	}
	if best, err := SpeedupGate("2x", 2, 1.2, 3, 5, time.Millisecond, ref, prod); err != nil {
		t.Fatalf("a 2× reference failed a recorded 2× (best %.2f×): %v", best, err)
	}
	if best, err := SpeedupGate("2x", 4, 1.2, 3, 5, time.Millisecond, ref, prod); err == nil {
		t.Fatalf("a 2× reference passed a recorded 4× (best %.2f×)", best)
	}
	if _, err := SpeedupGate("none", 0, 1.2, 3, 5, time.Millisecond, ref, prod); err == nil {
		t.Fatal("a missing recorded speedup passed")
	}
}
