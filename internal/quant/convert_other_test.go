//go:build !amd64

package quant

// converterFamilies lists the packed converter families of this build:
// none off amd64.
func converterFamilies() []converterFamily { return nil }
