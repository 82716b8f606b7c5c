//go:build !race

package transform

const raceBuild = false
