package main

// sizing freezes how much work one round of each workload does. The full
// values were chosen on the 2-core host the baseline was recorded on so that
// a planner round takes 0.5–1 s; they are part of the benchmark's definition
// and change only in a PR that re-measures the baseline. The quick values
// exist for bench_test.go and make no timing claim.
type sizing struct {
	setupReps  int // set-ups per run; setup_s is their median
	warmRounds int // untimed rounds at the end of every set-up
	minRounds  int // measured rounds, whatever --seconds says (the traced run: three, one of each kind)

	// poolSeed generates the inputs that are the same in every run: the
	// chains whose planning cost would otherwise swing with --seed by more
	// than any bound (plan_cold groups A, B, D; plan_edit's long chain).
	poolSeed int64

	// plan_cold: chains per grid point of groups A–D (group E is the 20
	// Table II rows, always).
	chainsA, chainsB, chainsC, chainsD int
	longN                              int // group D chain length
	simFrames                          int // desim frames per Table II row
	bruteChains                        int // n ≤ 10 chains cross-checked against internal/brute

	// plan_edit: the synthetic session's chain length and its edits per
	// round by kind (appends = removes, so the length holds), the Table III
	// session's drift edits per round, and the cached repeats.
	synN                                    int
	headEdits, midEdits, tailEdits, appends int
	macEdits                                int
	repeats, poolSize                       int

	// replay_tableII: plan→predict→build repetitions per row visit (they
	// are the latency samples) and the share of --seconds one row's run
	// takes at its planned period.
	replayRows      int // leading Table II rows considered (20: all four configurations)
	replayReps      int
	replayRowShare  float64
	replayMinFrames int

	// stream_handoff and rx_live: frames per round, and for rx_live the
	// frames the set-up profiles the receiver over.
	handoffFrames, shapeFrames int
	rxFrames, rxProfileFrames  int

	probeScale int // divides the iteration counts of the micro-probes
}

var fullSize = sizing{
	setupReps: 3, warmRounds: 1, minRounds: 4, poolSeed: 20250,
	chainsA: 6, chainsB: 5, chainsC: 40, chainsD: 5, longN: 512, simFrames: 3000, bruteChains: 6,
	synN: 1024, headEdits: 2, midEdits: 3, tailEdits: 24, appends: 12, macEdits: 60, repeats: 28, poolSize: 48,
	replayRows: 20, replayReps: 30, replayRowShare: 1.0 / 64, replayMinFrames: 16,
	handoffFrames: 1 << 18, shapeFrames: 1 << 19, rxFrames: 600, rxProfileFrames: 200,
	probeScale: 1,
}

var quickSize = sizing{
	setupReps: 1, warmRounds: 1, minRounds: 2, poolSeed: 20250,
	chainsA: 1, chainsB: 1, chainsC: 2, chainsD: 1, longN: 128, simFrames: 400, bruteChains: 2,
	synN: 160, headEdits: 1, midEdits: 1, tailEdits: 3, appends: 2, macEdits: 6, repeats: 4, poolSize: 6,
	replayRows: 5, replayReps: 2, replayRowShare: 1.0 / 64, replayMinFrames: 4,
	handoffFrames: 1 << 13, shapeFrames: 1 << 12, rxFrames: 40, rxProfileFrames: 24,
	probeScale: 200,
}
