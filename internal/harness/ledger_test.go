package harness

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// ledgerOptions is a tiny sweep: enough cells to exercise concurrency, small
// enough to run twice in a test.
func ledgerOptions(ledger string, progress func(string)) Options {
	return Options{
		Fields:    2,
		Duration:  30 * time.Second,
		Nodes:     []int{50, 100},
		Telemetry: true,
		Ledger:    ledger,
		Progress:  progress,
	}
}

// lineLog collects Options.Progress lines, which sweep workers report
// concurrently.
type lineLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *lineLog) add(s string) {
	l.mu.Lock()
	l.lines = append(l.lines, s)
	l.mu.Unlock()
}

// TestLedgerResume checks the resumable-sweep contract: a second run over
// the same ledger replays every cell without simulating, and the resumed
// table renders a byte-identical CSV.
func TestLedgerResume(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "sweep.ledger.ndjson")

	var first lineLog
	t1, err := Fig5(ledgerOptions(ledger, first.add))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range first.lines {
		if strings.Contains(l, "replayed") {
			t.Fatalf("fresh sweep replayed a cell: %q", l)
		}
	}

	var second lineLog
	t2, err := Fig5(ledgerOptions(ledger, second.add))
	if err != nil {
		t.Fatal(err)
	}
	if len(second.lines) == 0 {
		t.Fatal("no progress lines from the resumed sweep")
	}
	for _, l := range second.lines {
		if !strings.Contains(l, "replayed from ledger") {
			t.Fatalf("resumed sweep re-simulated a cell: %q", l)
		}
	}

	var csv1, csv2 bytes.Buffer
	if err := t1.CSV(&csv1); err != nil {
		t.Fatal(err)
	}
	if err := t2.CSV(&csv2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
		t.Fatalf("resumed CSV differs from the original:\n--- fresh ---\n%s--- resumed ---\n%s",
			csv1.String(), csv2.String())
	}
}

// TestLedgerIgnoresMismatchedRuns checks the replay guard: entries recorded
// under a different seed or duration never replay.
func TestLedgerIgnoresMismatchedRuns(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "sweep.ledger.ndjson")
	if _, err := Fig5(ledgerOptions(ledger, nil)); err != nil {
		t.Fatal(err)
	}

	opts := ledgerOptions(ledger, nil)
	opts.BaseSeed = 999 // different seeds: nothing on file matches
	var log lineLog
	opts.Progress = log.add
	if _, err := Fig5(opts); err != nil {
		t.Fatal(err)
	}
	for _, l := range log.lines {
		if strings.Contains(l, "replayed") {
			t.Fatalf("mismatched-seed sweep replayed a cell: %q", l)
		}
	}
}

// TestLedgerSkipsTruncatedLines checks crash tolerance: a ledger whose last
// record was cut mid-write loads the intact records and drops the ragged
// tail.
func TestLedgerSkipsTruncatedLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ledger.ndjson")
	if _, err := Fig5(ledgerOptions(path, nil)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	full.Close()
	if full.Loaded() == 0 {
		t.Fatal("no ledger entries after a completed sweep")
	}

	// Cut the file mid-way through its final record.
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	cut, err := OpenLedger(path)
	if err != nil {
		t.Fatalf("truncated ledger failed to open: %v", err)
	}
	cut.Close()
	if cut.Loaded() != full.Loaded()-1 {
		t.Fatalf("truncated ledger loaded %d entries, want %d", cut.Loaded(), full.Loaded()-1)
	}
}

// TestLedgerShardKey: a line written by a former sharded run (shards ≥ 2)
// was a different event interleaving than a serial run, so it is decoded
// but never replayed: the cell re-simulates and its serial result takes
// over. Lines without the field (serial runs) replay as before.
func TestLedgerShardKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.ndjson")
	lines := `{"figure":"fig5","series":"greedy","x":40,"field":0,"seed":9,"sim_secs":10,"shards":2,"output":{"density":1}}
{"figure":"fig5","series":"greedy","x":40,"field":1,"seed":10,"sim_secs":10,"output":{"density":2}}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	led, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	if led.Loaded() != 2 {
		t.Fatalf("loaded %d entries, want both lines decoded", led.Loaded())
	}
	if _, ok := led.lookup("fig5", "greedy", 40, 0, 9, 10); ok {
		t.Error("a sharded entry replayed into a serial sweep")
	}
	if lo, ok := led.lookup("fig5", "greedy", 40, 1, 10, 10); !ok || lo.Density != 2 {
		t.Errorf("serial entry: replayed=%v density=%v, want true 2", ok, lo.Density)
	}

	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.Seed, cfg.Duration = 40, 9, 10*time.Second
	var progress []string
	o := Options{Progress: func(s string) { progress = append(progress, s) }}
	id := cellID{figure: "fig5", series: "greedy", x: 40, field: 0}
	lo, err := runCell(o, led, newProgressTracker(1), id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(progress) != 1 || !strings.Contains(progress[0], " done ") {
		t.Fatalf("cell with a sharded ledger line was not re-simulated: %q", progress)
	}
	if lo.Kernel.Events == 0 || lo.Density == 1 {
		t.Fatalf("re-simulated cell returned the sharded line's output: %+v", lo)
	}
	if got, ok := led.lookup("fig5", "greedy", 40, 0, 9, 10); !ok || got.Density != lo.Density {
		t.Error("the serial re-run did not supersede the sharded line")
	}
}

// TestLedgerConcurrentProcesses opens the same ledger file through two
// independent handles — what two racing sweep invocations look like — and
// appends from both concurrently. Every line must survive intact.
func TestLedgerConcurrentProcesses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.ndjson")
	a, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	const perHandle = 50
	var wg sync.WaitGroup
	for h, led := range []*Ledger{a, b} {
		wg.Add(1)
		go func(h int, led *Ledger) {
			defer wg.Done()
			for i := 0; i < perHandle; i++ {
				e := LedgerEntry{
					Figure: "fig5", Series: fmt.Sprintf("h%d", h),
					X: i, Seed: int64(i), SimSecs: 60,
				}
				if err := led.record(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(h, led)
	}
	wg.Wait()
	a.Close()
	b.Close()
	reopened, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got, want := reopened.Loaded(), 2*perHandle; got != want {
		t.Fatalf("reopened ledger holds %d entries, want %d (a torn line means the append was not atomic)", got, want)
	}
	for h := 0; h < 2; h++ {
		for i := 0; i < perHandle; i++ {
			if _, ok := reopened.lookup("fig5", fmt.Sprintf("h%d", h), i, 0, int64(i), 60); !ok {
				t.Fatalf("entry h%d/%d missing after concurrent append", h, i)
			}
		}
	}
}

// TestSweepInterrupted checks the graceful-stop contract: with the
// interrupt already raised no cell starts and the sweep surfaces
// ErrInterrupted for the caller's exit-130 path; raised mid-sweep, the
// cells that finished are on the ledger and a rerun over it completes the
// sweep to the CSV an uninterrupted run renders.
func TestSweepInterrupted(t *testing.T) {
	raised := make(chan struct{})
	close(raised)
	o := ledgerOptions("", nil)
	o.Interrupt = raised
	if _, err := Fig5(o); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted sweep returned %v, want ErrInterrupted", err)
	}

	render := func(tab *Table) []byte {
		var buf bytes.Buffer
		if err := tab.CSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fresh, err := Fig5(ledgerOptions("", nil))
	if err != nil {
		t.Fatal(err)
	}

	ledger := filepath.Join(t.TempDir(), "sweep.ledger.ndjson")
	interrupt := make(chan struct{})
	var once sync.Once
	o = ledgerOptions(ledger, func(string) { once.Do(func() { close(interrupt) }) })
	o.Workers = 1
	o.Interrupt = interrupt
	if _, err := Fig5(o); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("sweep interrupted after its first cell returned %v, want ErrInterrupted", err)
	}
	led, err := OpenLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	led.Close()
	if led.Loaded() == 0 {
		t.Fatal("the cell that finished before the interrupt is not on the ledger")
	}

	var log lineLog
	resumed, err := Fig5(ledgerOptions(ledger, log.add))
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, l := range log.lines {
		if strings.Contains(l, "replayed from ledger") {
			replayed++
		}
	}
	if replayed != led.Loaded() {
		t.Errorf("resume replayed %d cells, the ledger holds %d", replayed, led.Loaded())
	}
	if a, b := render(fresh), render(resumed); !bytes.Equal(a, b) {
		t.Fatalf("resumed CSV differs from the uninterrupted one:\n--- fresh ---\n%s--- resumed ---\n%s", a, b)
	}
}
