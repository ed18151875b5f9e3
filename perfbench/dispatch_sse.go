//go:build amd64 && !purego

package main

// kernelDispatch mirrors the build constraint that selects the engine's
// SSE kernels (internal/linalg/kernels_amd64.go).
const kernelDispatch = "sse"
