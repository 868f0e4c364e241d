package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	darco "darco"
	"darco/internal/guest"
	"darco/internal/guestvm"
	"darco/internal/workload"
	"darco/serve"
)

// workloadDef is one benchmark workload: a roster of guest programs and
// the engine configuration they run under. README.md records why each one
// was chosen and which layers it stresses.
type workloadDef struct {
	name string
	why  string

	// profiles names the roster (empty = the whole 31-benchmark suite).
	profiles []string
	// variants is how many seed-derived programs of each profile the bare
	// roster holds. A single generated program's speed and allocation move
	// by several percent with its seed, so the roster averages over a few.
	variants int
	// scale is the bare roster's dynamic-size factor; jobScale the one the
	// served and federated jobs run the same profiles at. The steady
	// workloads halve it: a job streams telemetry for every instruction,
	// and a cycle has to stay short enough to repeat several times.
	scale    float64
	jobScale float64
	// timing attaches the timing simulator exactly as darco.TimingConfig
	// hands it to an engine user.
	timing bool
	// campaign makes the bare pass one Engine.RunCampaign + export.WriteCSV
	// over the job roster instead of one fresh session per program.
	campaign bool
	// bareRounds is how many bare rounds a cycle of the untraced pass runs
	// beside its three jobs: enough to take about as long as they do.
	bareRounds int
}

var workloads = []workloadDef{
	{
		name:     "fp-steady",
		why:      "long FP superblocks: hostvm execution and the guestvm catch-up do the work, translation under 3%",
		profiles: []string{"470.lbm", "433.milc", "410.bwaves"},
		variants: 4, scale: 1.0, jobScale: 0.25, bareRounds: 1,
	},
	{
		name:     "int-branchy",
		why:      "4-instruction blocks, flags, indirect calls, string ops, unbiased branches: dispatch, IBTC and rebuilds",
		profiles: []string{"400.perlbench", "401.bzip2", "445.gobmk", "429.mcf"},
		variants: 2, scale: 1.0, jobScale: 0.25, bareRounds: 1,
	},
	{
		name:     "phys-startup",
		why:      "45 ms sessions that never amortise: interpretation, BB/SB translation and page transfer dominate",
		profiles: []string{"continuous", "periodic", "ragdoll"},
		variants: 4, scale: 1.0, jobScale: 1.0, bareRounds: 1,
	},
	{
		name:     "timing-sim",
		why:      "timing simulator attached as an engine user gets it: timing.Core.Consume is most of the wall",
		profiles: []string{"429.mcf", "433.milc"},
		variants: 3, scale: 0.25, jobScale: 0.25, timing: true, bareRounds: 1,
	},
	{
		name:     "tiers",
		why:      "the 31-scenario suite as bare campaign, served job and federated job: queueing, journaling, streaming, merge",
		variants: 1, scale: 0.05, jobScale: 0.05, campaign: true, bareRounds: 3,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// quickDivisor shrinks every scale in -quick mode (the smoke test), which
// also keeps one program per profile.
const quickDivisor = 4

// program is one guest program of a bare roster with its oracle: the
// output a standalone guestvm run of the same image produces.
type program struct {
	id      string // "<profile>#<variant>@<scale>[+timing]", the key in expected/seed0.json
	profile workload.Profile
	image   *guest.Image
	output  []byte // authoritative guest output
}

// jobParallelism is the scenario parallelism of every campaign and job, and
// federationWorkers the size of the coordinator's pool (it cuts a job into
// one shard per worker and runs them at once). Both are 1: the reference
// box has two shared CPUs, and an operation that keeps both busy takes
// half as long again whenever a neighbour borrows one, while the single
// busy goroutine moves to the CPU that is free. The second CPU is the
// garbage collector's and the HTTP plumbing's. What one box can measure of
// a federation is its added cost, not its speed-up.
const (
	jobParallelism    = 1
	federationWorkers = 1
)

// buildPrograms generates the bare roster for a seed and runs each image
// on a standalone guestvm for the reference output. Seed s gives variant j
// of a profile the generator seed Profile.Seed + s*variants + j, so seed 0
// starts at the paper roster and no two seeds share a program. A campaign
// workload's bare pass runs the job roster, which the service API pins to
// the paper's generator seeds.
func (w workloadDef) buildPrograms(seed uint64, quick bool) ([]program, error) {
	scale, variants := w.scale, w.variants
	if quick {
		scale, variants = scale/quickDivisor, 1
	}
	var profiles []workload.Profile
	if len(w.profiles) == 0 {
		profiles = workload.Suites()
	}
	for _, name := range w.profiles {
		p, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("workload %s: unknown profile %q", w.name, name)
		}
		profiles = append(profiles, p)
	}
	var out []program
	for _, p := range profiles {
		for j := 0; j < variants; j++ {
			q := p.Scale(scale)
			if !w.campaign {
				q.Seed += seed*uint64(variants) + uint64(j)
			}
			pr := program{id: fmt.Sprintf("%s#%d@%g", p.Name, j, scale), profile: q}
			if w.timing {
				pr.id += "+timing"
			}
			var err error
			if w.campaign {
				// RunCampaign resolves images through this cache; sharing it
				// means the oracle ran the very image the campaign runs.
				pr.image, err = workload.CachedImage(q)
			} else {
				pr.image, err = q.Generate()
			}
			if err != nil {
				return nil, fmt.Errorf("%s: generate: %w", pr.id, err)
			}
			if pr.output, _, _, err = runGuestVM(pr.image); err != nil {
				return nil, fmt.Errorf("%s: reference run: %w", pr.id, err)
			}
			out = append(out, pr)
		}
	}
	return out, nil
}

// runGuestVM executes an image on the authoritative emulator alone.
func runGuestVM(im *guest.Image) (output []byte, wall time.Duration, insns uint64, err error) {
	t0 := time.Now()
	vm, err := guestvm.New(im)
	if err != nil {
		return nil, 0, 0, err
	}
	reason, err := vm.Run(guestvm.RunLimits{})
	wall = time.Since(t0)
	if err != nil {
		return nil, wall, 0, err
	}
	if reason != guestvm.StopHalt {
		return nil, wall, 0, fmt.Errorf("guestvm stopped for %v before halting", reason)
	}
	return vm.Env.Output, wall, vm.InsnCount, nil
}

// jobRequest is the submission a user would post for this workload: the
// roster's profiles by name (the service API cannot carry a generator
// seed, so the seed only permutes their order), default telemetry, and
// the timing simulator when the workload has it.
func (w workloadDef) jobRequest(seed uint64, quick, telemetryOff bool) serve.SubmitRequest {
	scale := w.jobScale
	if quick {
		scale /= quickDivisor
	}
	names := w.profiles
	if len(names) == 0 {
		for _, p := range workload.Suites() {
			names = append(names, p.Name)
		}
	}
	req := serve.SubmitRequest{Name: w.name}
	for _, name := range names {
		req.Scenarios = append(req.Scenarios, serve.ScenarioSpec{Profile: name, Scale: scale})
	}
	if w.campaign {
		rand.New(rand.NewPCG(seed, 0x6461_7263_6f)).Shuffle(len(names), func(i, j int) {
			req.Scenarios[i], req.Scenarios[j] = req.Scenarios[j], req.Scenarios[i]
		})
	}
	if w.timing {
		req.Engine = &serve.EngineSpec{Timing: true}
	}
	if telemetryOff {
		req.Telemetry = &serve.TelemetrySpec{Disable: true}
	}
	return req
}

// engineOptions is the engine the bare pass runs on.
func (w workloadDef) engineOptions() []darco.Option {
	if w.timing {
		return []darco.Option{darco.WithConfig(darco.TimingConfig())}
	}
	return nil
}
