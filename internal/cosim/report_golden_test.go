package cosim

import (
	"os"
	"path/filepath"
	"testing"

	"xt910/internal/asm"
)

// reportProgram is a short store/load loop: every iteration commits ALU ops
// with destinations, a store and a load with addresses, and a branch, so the
// commit trace exercises every line shape the report formats. x9 is never
// written, so a flip of its retirement-map register is caught at the very
// next commit.
const reportProgram = `
_start:
    la x8, buf
    li x5, 0
    li x6, 12
loop:
    addi x5, x5, 3
    sd x5, 0(x8)
    ld x7, 0(x8)
    addi x6, x6, -1
    bnez x6, loop
` + exitEpilogue + `
.data
buf:
    .dword 0
`

// divergenceReport runs reportProgram until hart has committed at least
// after instructions, flips bit 4 of x9 on that hart, and returns the report
// of the divergence the checker must then find.
func divergenceReport(t *testing.T, opts Options, hart int, after uint64) string {
	t.Helper()
	prog, err := asm.Assemble(reportProgram, asm.Options{Base: 0x1000, Compress: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	opts.MaxCycles = 1_000_000
	s := NewSession(prog, opts)
	h := s.Hart(hart)
	for !s.Done() && h.Commits() < after {
		s.Step()
	}
	if s.Done() {
		t.Fatalf("run ended at %d commits, before the injection point %d", h.Commits(), after)
	}
	if !h.Core().InjectArchRegBit(9, 4) {
		t.Fatal("injection refused")
	}
	for !s.Done() {
		s.Step()
	}
	r := s.Finish()
	if !r.Diverged {
		t.Fatal("flipped x9 went undetected")
	}
	return r.Report
}

// TestDivergenceReportGolden pins the divergence report text byte for byte:
// the header, the failing instruction, the detail lines and the commit-trace
// window, across window sizes, a window that has not filled yet, a disabled
// window and a multi-hart session.
func TestDivergenceReportGolden(t *testing.T) {
	cases := []struct {
		name  string
		opts  Options
		hart  int
		after uint64
	}{
		{"default_window", Options{}, 0, 40},
		{"window3", Options{Window: 3}, 0, 40},
		{"window_not_full", Options{}, 0, 5},
		{"window_off", Options{Window: -1}, 0, 40},
		{"smp_hart1", Options{Modes: Modes{SMP: true}}, 1, 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := divergenceReport(t, tc.opts, tc.hart, tc.after)
			path := filepath.Join("testdata", "report_"+tc.name+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("report differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
			}
		})
	}
}
