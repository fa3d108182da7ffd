//go:build !amd64 || purego

package fp

// Without the amd64 kernel the 8-limb dispatch is settled at compile time:
// the Go kernels of fp8.go are the only ones, and mul8 is never reached.
const useAsm = false

func mul8(z, x, y, p *[8]uint64, n0 uint64) { panic("fp: no assembly kernel in this build") }
