//go:build !purego

package fp

// setAsm switches the assembly kernel on or off for a test; see eachKernel.
func setAsm(on bool) { useAsm = on }
