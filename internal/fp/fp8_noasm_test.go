//go:build !amd64 || purego

package fp

// setAsm has nothing to switch in a build without the assembly kernel.
func setAsm(bool) {}
