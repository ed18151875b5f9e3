//go:build !amd64 || purego

package main

// kernelDispatch mirrors the build constraint that selects the engine's
// portable kernels (internal/linalg/kernels_noasm.go).
const kernelDispatch = "purego"
