//go:build !race

package interp

const raceBuild = false
