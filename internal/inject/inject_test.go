package inject

import (
	"context"
	"testing"
	"time"
)

func smallCampaign(t *testing.T, jobs int) *Report {
	t.Helper()
	rep, err := RunCampaign(context.Background(), Options{
		Seeds:         []int64{1, 2, 3, 4},
		FaultsPerSeed: 6,
		Jobs:          jobs,
		Timeout:       2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCampaignCoverage runs the fixed-seed campaign and checks the coverage
// contract: no control false positives, zero silent architectural corruption,
// and at least one detected fault with a measured latency.
func TestCampaignCoverage(t *testing.T) {
	rep := smallCampaign(t, 4)
	if len(rep.ControlFailures) > 0 {
		t.Fatalf("control runs diverged (false positives): %v", rep.ControlFailures)
	}
	if n := rep.SilentArch(); n > 0 {
		t.Fatalf("%d architectural-state faults went silent:\n%s", n, rep.Format())
	}
	if rep.Count(Detected) == 0 {
		t.Fatalf("campaign detected nothing:\n%s", rep.Format())
	}
	for _, fr := range rep.Results {
		if fr.Outcome == Crashed {
			t.Errorf("fault crashed the simulator: %+v: %s", fr.Fault, fr.Err)
		}
		if fr.Outcome == Detected && fr.CommitsAtInject == 0 {
			t.Errorf("detected fault with no injection commit recorded: %+v", fr.Fault)
		}
	}
}

// TestCampaignDeterministic requires the formatted report to be
// byte-identical at any worker-pool width.
func TestCampaignDeterministic(t *testing.T) {
	a := smallCampaign(t, 1).Format()
	b := smallCampaign(t, 4).Format()
	if a != b {
		t.Fatalf("campaign reports differ between jobs=1 and jobs=4:\n--- jobs=1\n%s\n--- jobs=4\n%s", a, b)
	}
}

// TestArchRegFaultsNeverSilent drives the archreg channel directly across a
// spread of cycles and bits: every fault must be Detected, Masked or (when
// the run ends first) NotInjected — Silent would be a checker coverage hole.
func TestArchRegFaultsNeverSilent(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		prog, err := seedProgram(seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, cycle := range []uint64{50, 400, 1500} {
			f := Fault{
				Seed:   seed,
				Target: TargetArchReg,
				Cycle:  cycle,
				Reg:    1 + int(seed*7+int64(i*11))%63,
				Bit:    uint(i * 13 % 64),
			}
			fr := runFault(context.Background(), f, prog, 200_000)
			switch fr.Outcome {
			case Detected, Masked, NotInjected:
			default:
				t.Errorf("archreg fault %+v classified %s", f, fr.Outcome)
			}
		}
	}
}
