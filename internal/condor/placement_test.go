package condor

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// TestDataLocalityPlacement: under the data-locality policy a job whose
// input LFNs are scratch-resident on one node must be matched to that node,
// overriding the most-free round-robin rotation that would otherwise move
// consecutive jobs across startds.
func TestDataLocalityPlacement(t *testing.T) {
	f := newFixture(t, func(p *config.Params) {
		fastPerJob(p)
		p.CondorPlacementPolicy = "data-locality"
	})
	f.env.Go("main", func(p *sim.Proc) {
		f.cl.Workers[2].Scratch.PutThen("wf/x.fits", 1<<20, p.Resumer())
		p.Await()
		f.cl.Workers[0].Scratch.PutThen("wf/y.fits", 1<<20, p.Resumer())
		p.Await()
		for i, tc := range []struct {
			lfn  string
			want string
		}{
			{"wf/x.fits", f.cl.Workers[2].Name},
			{"wf/x.fits", f.cl.Workers[2].Name}, // repeat: rotation must not win over residency
			{"wf/y.fits", f.cl.Workers[0].Name},
		} {
			j := f.s.SubmitJob(JobSpec{
				Name:      fmt.Sprintf("loc-%d", i),
				InputLFNs: []string{tc.lfn},
				Run:       noop,
			})
			if err := f.s.Wait(p, j); err != nil {
				t.Fatal(err)
			}
			if j.Node() != tc.want {
				t.Errorf("job %d (input %s): ran on %q, want %q", i, tc.lfn, j.Node(), tc.want)
			}
		}
		f.s.Shutdown()
	})
	f.env.Run()
}
