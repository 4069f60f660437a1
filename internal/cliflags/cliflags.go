// Package cliflags defines the flag surface shared by the XT-910 campaign
// CLIs (xtfuzz, xtinject, xtbench): one definition of the uniform knobs
// -n / -seed / -jobs / -json / -timeout plus the composable -modes spec, so
// every tool spells them the same way and the seed-range and mode parsing
// live in exactly one place. Defaults differ per tool; names and meanings
// never do.
package cliflags

import (
	"flag"
	"runtime"
	"time"

	"xt910/internal/cosim"
)

// Campaign holds the uniform campaign knobs. A tool registers the subset it
// supports with the Register* helpers and reads the fields after fs.Parse.
type Campaign struct {
	N       int
	Seed    int64
	Jobs    int
	JSON    bool
	Timeout time.Duration
}

// RegisterSeeds registers -n (seed count, tool-specific default) and -seed
// (first seed).
func (c *Campaign) RegisterSeeds(fs *flag.FlagSet, defaultN int) {
	fs.IntVar(&c.N, "n", defaultN, "number of seeds to run")
	fs.Int64Var(&c.Seed, "seed", 1, "first seed")
}

// Seeds expands (-seed, -n) into the campaign's seed list.
func (c *Campaign) Seeds() []int64 {
	s := make([]int64, c.N)
	for i := range s {
		s[i] = c.Seed + int64(i)
	}
	return s
}

// RegisterPool registers -jobs with the shared default and wording.
func (c *Campaign) RegisterPool(fs *flag.FlagSet) {
	fs.IntVar(&c.Jobs, "jobs", runtime.GOMAXPROCS(0),
		"worker-pool width (1 = serial; results identical at any width)")
}

// RegisterJSON registers -json.
func (c *Campaign) RegisterJSON(fs *flag.FlagSet) {
	fs.BoolVar(&c.JSON, "json", false, "emit machine-readable JSON on stdout")
}

// RegisterTimeout registers -timeout (tool-specific default and usage).
func (c *Campaign) RegisterTimeout(fs *flag.FlagSet, def time.Duration, usage string) {
	fs.DurationVar(&c.Timeout, "timeout", def, usage)
}

// Knobs is the serializable image of the uniform campaign knob set: the same
// -n / -seed / -jobs / -timeout / -modes values a CLI invocation would carry,
// as a JSON document a campaign manifest can record and a service can
// reconstruct the exact run from. Round trip: Campaign.Knobs → JSON →
// Knobs.Campaign yields the identical knob values.
type Knobs struct {
	N       int           `json:"n,omitempty"`
	Seed    int64         `json:"seed,omitempty"`
	Jobs    int           `json:"jobs,omitempty"`
	Timeout time.Duration `json:"timeout,omitempty"`
	Modes   string        `json:"modes,omitempty"`
}

// Knobs packages the parsed campaign flags (plus a -modes spec string) for a
// manifest.
func (c *Campaign) Knobs(modes string) Knobs {
	return Knobs{N: c.N, Seed: c.Seed, Jobs: c.Jobs, Timeout: c.Timeout, Modes: modes}
}

// Campaign reconstructs the flag values the knobs were captured from.
func (k Knobs) Campaign() Campaign {
	return Campaign{N: k.N, Seed: k.Seed, Jobs: k.Jobs, Timeout: k.Timeout}
}

// Seeds expands the knob set's seed range, identically to Campaign.Seeds.
func (k Knobs) Seeds() []int64 {
	c := k.Campaign()
	return c.Seeds()
}

// CosimModes parses and validates the recorded -modes spec.
func (k Knobs) CosimModes() (cosim.Modes, error) {
	md, err := cosim.ParseModes(k.Modes)
	if err != nil {
		return md, err
	}
	return md, md.Validate()
}

// ModeSpec is the composable -modes flag. Register it, parse the FlagSet,
// then call Modes.
type ModeSpec struct {
	spec string
}

// Register registers -modes.
func (m *ModeSpec) Register(fs *flag.FlagSet) {
	fs.StringVar(&m.spec, "modes", "", "comma-separated fuzz modes: paged, irq, smp")
}

// Modes parses the spec into one validated mode set.
func (m *ModeSpec) Modes() (cosim.Modes, error) {
	return Knobs{Modes: m.spec}.CosimModes()
}
