//go:build race

package transform

// raceBuild reports a -race build, whose runtime may make a few
// allocations more than a plain build's.
const raceBuild = true
