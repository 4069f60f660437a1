package cliflags

import (
	"encoding/json"
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"xt910/internal/cosim"
)

func newFS() *flag.FlagSet {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestSeedsExpansion(t *testing.T) {
	var c Campaign
	fs := newFS()
	c.RegisterSeeds(fs, 100)
	if err := fs.Parse([]string{"-n", "3", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
	got := c.Seeds()
	want := []int64{7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("Seeds() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Seeds() = %v, want %v", got, want)
		}
	}
}

func TestModeSpecRejectsIllegal(t *testing.T) {
	var m ModeSpec
	fs := newFS()
	m.Register(fs)
	if err := fs.Parse([]string{"-modes", "smp,paged"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Modes(); err == nil {
		t.Fatal("paged+smp accepted, want error")
	}
}

// TestModeSpecAliasMatrix sweeps every -modes spec. The legality rule is
// restated here independently of cosim.Modes.Validate: paged excludes both
// irq and smp.
func TestModeSpecAliasMatrix(t *testing.T) {
	specs := []struct {
		spec string
		md   cosim.Modes
	}{
		{"", cosim.Modes{}},
		{"paged", cosim.Modes{Paged: true}},
		{"irq", cosim.Modes{IRQ: true}},
		{"smp", cosim.Modes{SMP: true}},
		{"paged,irq", cosim.Modes{Paged: true, IRQ: true}},
		{"paged,smp", cosim.Modes{Paged: true, SMP: true}},
		{"irq,smp", cosim.Modes{IRQ: true, SMP: true}},
		{"paged,irq,smp", cosim.Modes{Paged: true, IRQ: true, SMP: true}},
	}
	for _, s := range specs {
		args := []string{"-modes", s.spec}
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var m ModeSpec
			fs := newFS()
			m.Register(fs)
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			wantErr := s.md.Paged && (s.md.IRQ || s.md.SMP)
			got, err := m.Modes()
			if wantErr {
				if err == nil {
					t.Fatalf("Modes() = %+v, nil; want error for illegal set", got)
				}
				return
			}
			if err != nil {
				t.Fatalf("Modes() error: %v", err)
			}
			if got != s.md {
				t.Fatalf("Modes() = %+v, want %+v", got, s.md)
			}
		})
	}
}

// TestKnobsRoundTrip pins the manifest contract: parsed campaign flags survive
// Campaign.Knobs → JSON → Knobs.Campaign with identical values, and the
// recorded -modes spec re-parses through the same validator the CLIs use.
func TestKnobsRoundTrip(t *testing.T) {
	fs := newFS()
	var cf Campaign
	cf.RegisterSeeds(fs, 100)
	cf.RegisterPool(fs)
	cf.RegisterTimeout(fs, 0, "t")
	if err := fs.Parse([]string{"-n", "37", "-seed", "9", "-jobs", "3", "-timeout", "250ms"}); err != nil {
		t.Fatal(err)
	}

	k := cf.Knobs("paged")
	data, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	var back Knobs
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != k {
		t.Fatalf("knobs changed across JSON: %+v != %+v", back, k)
	}
	if got := back.Campaign(); got != (Campaign{N: 37, Seed: 9, Jobs: 3, Timeout: 250 * time.Millisecond}) {
		t.Fatalf("Campaign() = %+v", got)
	}
	if seeds := back.Seeds(); len(seeds) != 37 || seeds[0] != 9 || seeds[36] != 45 {
		t.Fatalf("Seeds() = len %d, first %d, last %d", len(seeds), seeds[0], seeds[len(seeds)-1])
	}
	md, err := back.CosimModes()
	if err != nil || !md.Paged {
		t.Fatalf("CosimModes() = %+v, %v", md, err)
	}
}

// TestKnobsRejectIllegalModes: the recorded spec goes through Validate, so a
// manifest cannot smuggle in a mode combination the CLIs reject.
func TestKnobsRejectIllegalModes(t *testing.T) {
	for _, spec := range []string{"warp", "paged,smp"} {
		if _, err := (Knobs{Modes: spec}).CosimModes(); err == nil {
			t.Fatalf("modes %q: want error, got nil", spec)
		}
	}
}
