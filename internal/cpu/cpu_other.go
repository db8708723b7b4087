//go:build !amd64

package cpu

// HasAVX512F reports false off amd64, where the packed kernels do not
// exist and the portable Go loops run.
func HasAVX512F() bool { return false }
