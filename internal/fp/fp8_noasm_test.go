//go:build !amd64 || purego

package fp

// setAsm has nothing to switch in a build without the assembly kernel.
func setAsm(bool) {}

// setLanes has nothing to switch in a build without the lane engine.
func setLanes(bool) {}
