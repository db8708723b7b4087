//go:build !amd64

package fourier

// packedKernelFamilies is empty off amd64, where the Go loops are the only
// lockstep kernels.
func packedKernelFamilies() []kernelFamily { return nil }
