package metrics

import (
	"strings"
	"testing"
	"time"

	"gospaces/internal/vclock"
)

func TestStopwatch(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	clk.Run(func() {
		sw := StartStopwatch(clk)
		clk.Sleep(1500 * time.Millisecond)
		if got := sw.Elapsed(); got != 1500*time.Millisecond {
			t.Errorf("elapsed %v", got)
		}
	})
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"name", "value_ms"}}
	tab.AddRow("short", "1")
	tab.AddRow("a-much-longer-name", "123456")
	s := tab.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), s)
	}
	// Columns align: every data line has the value column at the same
	// offset.
	idx := strings.Index(lines[1], "value_ms")
	if idx < 0 {
		t.Fatalf("no header: %q", lines[1])
	}
	if lines[3][idx] != '1' || lines[4][idx] != '1' {
		t.Fatalf("columns misaligned:\n%s", s)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "b"}}
	tab.AddRow("1", "plain")
	tab.AddRow("2", `quoted,"cell"`)
	got := tab.CSV()
	want := "a,b\n1,plain\n2,\"quoted,\"\"cell\"\"\"\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestMs(t *testing.T) {
	if got := Ms(1500 * time.Millisecond); got != "1500" {
		t.Fatalf("Ms = %q", got)
	}
	if got := Ms(0); got != "0" {
		t.Fatalf("Ms(0) = %q", got)
	}
}
