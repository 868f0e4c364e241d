package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	darco "darco"
)

// expectedJSON holds, for every program of every workload at seed 0 (full
// and -quick scales), the SHA-256 of its guest output and the digest of
// its simulated statistics. Regenerate with -update-expected after a
// change that is meant to alter simulated behaviour.
//
//go:embed expected/seed0.json
var expectedJSON []byte

const expectedPath = "benchmark/expected/seed0.json"

// expectation is one program's committed outcome.
type expectation struct {
	OutputSHA256 string `json:"output_sha256"`
	StatsDigest  string `json:"stats_digest"`
}

func parseExpected(data []byte) (map[string]expectation, error) {
	out := map[string]expectation{}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath, err)
	}
	return out, nil
}

// statsDigest hashes every simulated statistic of a session: the TOL
// execution counters, the modelled overhead by category, the controller's
// synchronisation counts and, when attached, the timing simulator's
// report. Fields are written by name, so adding a counter to the engine
// does not disturb committed digests but changing a counted value does.
func statsDigest(res *darco.Result) string {
	var b strings.Builder
	s := &res.Stats
	fmt.Fprintf(&b, "im=%d bbm=%d sbm=%d bbs=%d hbbm=%d hsbm=%d disp=%d bbt=%d sbt=%d ar=%d sr=%d spec=%d unroll=%d ibb=%d sys=%d pg=%d",
		s.GuestInsnsIM, s.GuestInsnsBBM, s.GuestInsnsSBM, s.GuestBBs, s.HostInsnsBBM, s.HostInsnsSBM,
		s.Dispatches, s.BBTranslations, s.SBTranslations, s.AssertRebuilds, s.SpecRebuilds,
		s.SpecLoadsSched, s.UnrolledLoops, s.InterpBBs, s.Syscalls, s.PageRequests)
	fmt.Fprintf(&b, " ov=%v app=%d val=%d xfer=%d sync=%d exit=%d",
		res.Overhead.Cat, res.HostAppInsns, res.Validations, res.PageTransfers, res.SyscallSyncs, res.ExitCode)
	if t := res.Timing; t != nil {
		fmt.Fprintf(&b, " cyc=%d insns=%d tol=%d/%d br=%d/%d ld=%d st=%d stall=%d/%d/%d/%d cls=%v",
			t.Cycles, t.Insns, t.TOLInsns, t.TOLCycles, t.Branches, t.Mispredict, t.Loads, t.Stores,
			t.StallOperand, t.StallFU, t.StallMem, t.StallFront, t.ClassCount)
	}
	return sha256Hex([]byte(b.String()))
}

// oracle judges every operation of a run and counts the failures.
type oracle struct {
	expected map[string]expectation // nil unless seed 0 is being checked
	first    map[string]string      // program id -> digest of its first session
	observed map[string]expectation // what this run saw, for -update-expected

	attempted int
	failed    int
	reported  int
}

// newOracle builds the judge for a run. updating (-update-expected)
// records what seed 0 produces instead of checking it.
func newOracle(seed uint64, updating bool) (*oracle, error) {
	o := &oracle{first: map[string]string{}, observed: map[string]expectation{}}
	if seed == 0 && !updating {
		exp, err := parseExpected(expectedJSON)
		if err != nil {
			return nil, err
		}
		o.expected = exp
	}
	return o, nil
}

// fail records one failed operation; the first few are explained on
// standard error.
func (o *oracle) fail(format string, args ...any) {
	o.failed++
	if o.reported < 10 {
		o.reported++
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// failOp counts and fails an operation the harness judges by itself.
func (o *oracle) failOp(format string, args ...any) {
	o.attempted++
	o.fail(format, args...)
}

// session judges one session of p: it must not error, its guest output
// must equal the standalone guestvm run's, its statistics must repeat
// across rounds and, at seed 0, equal the committed expectation.
func (o *oracle) session(p *program, res *darco.Result, err error) {
	o.attempted++
	switch {
	case err != nil:
		o.fail("%s: %v", p.id, err)
		return
	case !bytes.Equal(res.Output, p.output):
		o.fail("%s: guest output %x differs from the guestvm reference %x", p.id, res.Output, p.output)
		return
	}
	digest := statsDigest(res)
	if first, seen := o.first[p.id]; !seen {
		o.first[p.id] = digest
		o.observed[p.id] = expectation{OutputSHA256: sha256Hex(res.Output), StatsDigest: digest}
	} else if first != digest {
		o.fail("%s: statistics digest changed between rounds", p.id)
		return
	}
	if o.expected != nil {
		want, ok := o.expected[p.id]
		switch {
		case !ok:
			o.fail("%s: no entry in %s", p.id, expectedPath)
		case want.OutputSHA256 != sha256Hex(res.Output):
			o.fail("%s: guest output differs from %s", p.id, expectedPath)
		case want.StatsDigest != digest:
			o.fail("%s: statistics digest differs from %s", p.id, expectedPath)
		}
	}
}

// job judges one served or federated job: it must finish done and its
// exported CSV must equal the bare campaign's bytes.
func (o *oracle) job(tier string, got []byte, err error, want []byte) {
	o.attempted++
	switch {
	case err != nil:
		o.fail("%s job: %v", tier, err)
	case !bytes.Equal(got, want):
		o.fail("%s job: export.csv (%d bytes) differs from the bare campaign's (%d bytes)", tier, len(got), len(want))
	}
}

// mergeExpected folds what this run observed into the committed file,
// which it finds from the repository root.
func (o *oracle) mergeExpected() error {
	data, err := os.ReadFile(expectedPath)
	if err != nil {
		return err
	}
	all, err := parseExpected(data)
	if err != nil {
		return err
	}
	for id, e := range o.observed {
		all[id] = e
	}
	if data, err = json.MarshalIndent(all, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(data, '\n'), 0o644)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
