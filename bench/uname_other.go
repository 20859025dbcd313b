//go:build !linux

package main

func kernelRelease() string { return "unknown" }
