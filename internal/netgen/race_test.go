//go:build race

package netgen

// searchSeeds is how many seeds per spec and placement the base-range pin
// checks. The race detector slows the referee's full edge counts about
// tenfold, so race builds check a tenth of them.
const searchSeeds = 100
