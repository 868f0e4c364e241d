// Package darco is a from-scratch Go reproduction of DARCO, the
// simulation infrastructure for HW/SW co-designed processors presented
// in "HW/SW Co-designed Processors: Challenges, Design Choices and a
// Simulation Infrastructure for Evaluation" (Kumar et al., ISPASS 2017).
//
// A HW/SW co-designed processor couples a simple host core to a software
// layer — the Translation Optimization Layer (TOL) — that dynamically
// translates and optimizes guest binaries for the host ISA. This package
// is the public facade over the simulated system, designed around three
// layers:
//
//   - Engine: immutable configuration built from functional options
//     (WithTOL, WithTiming, WithPower, WithObserver, WithRetireStream,
//     ...).
//   - Session: one guest program executing on an engine — run it to
//     completion with Run(ctx), advance it incrementally with Step,
//     snapshot it at any time, cancel it through the context, stream
//     translation/synchronization/progress events to an Observer, and
//     subscribe to the retire stream with SubscribeRetires: batches
//     carrying the instruction mix of the retired host instructions
//     (counted in the host VM's dispatch loop, a few percent of the
//     wall) and, with WithRetireEvents, the instructions themselves.
//   - Campaign: a set of named scenarios (workload profile × config
//     variant) executed across a bounded worker pool with per-scenario
//     timeouts, a fail-fast or collect-errors policy, and streaming
//     per-scenario completion (WithScenarioDone), aggregated into a
//     CampaignReport. Scenario execution is deterministic: per-scenario
//     statistics are identical at any parallelism.
//
// Run one workload:
//
//	p, _ := workload.ByName("429.mcf")
//	im, _ := p.Generate()
//	eng, _ := darco.NewEngine(
//		darco.WithTiming(timing.DefaultConfig()),
//		darco.WithPower(power.DefaultEnergies(), 1000),
//	)
//	res, _ := eng.Run(ctx, im)
//	fmt.Println(res.Summary())
//
// Regenerate the paper's whole evaluation concurrently:
//
//	rep, _ := eng.RunCampaign(ctx, darco.SuiteScenarios(1.0),
//		darco.WithParallelism(8), darco.WithFailFast())
//	fmt.Println(rep.Format())
//
// Campaign results export to versioned JSON, CSV and a static HTML
// dashboard through the darco/export package; the compiled Example
// functions in example_test.go are the tested forms of these snippets.
//
// README.md covers installation, the command-line tools and the
// package map; ARCHITECTURE.md documents the simulated system, the
// flat index-addressed hot-path design (two-level guest memory, decode
// and basic-block caches, immutable guest code, single-lookup
// profiling) and the results pipeline (retire stream, campaign
// exports, the BENCH_<n>.json performance trajectory), along with the
// determinism contract all of it obeys.
package darco
