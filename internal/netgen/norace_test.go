//go:build !race

package netgen

// searchSeeds is how many seeds per spec and placement the base-range pin
// checks.
const searchSeeds = 1000
