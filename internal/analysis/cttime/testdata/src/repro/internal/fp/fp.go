// Package fp stubs the limb field API for fixture use.
package fp

// Element is a stub limb vector.
type Element [4]uint64
