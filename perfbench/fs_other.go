//go:build !linux

package main

import "errors"

func fsType(string) string { return "unknown" }

func procWriteBytes() (int64, error) {
	return 0, errors.New("write_bytes needs /proc/self/io")
}

func cpuTicks() (total, steal int64, err error) {
	return 0, 0, errors.New("cpu ticks need /proc/stat")
}
