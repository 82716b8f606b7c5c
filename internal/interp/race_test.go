//go:build race

package interp

// raceBuild reports a -race build, whose runtime makes a varying few
// allocations more than a plain build's.
const raceBuild = true
