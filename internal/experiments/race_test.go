//go:build race

package experiments

// raceEnabled reports that the race detector instruments this test
// binary. It slows the CPU-bound paths several-fold — a 10 Gbps client's
// memory-speed writes, the hashing behind Fig 8's aggregate — so the
// wall-clock shapes of the paper's figures do not hold under it.
const raceEnabled = true
