//go:build !linux || race

package cluster

// adviseHugePages does nothing: transparent huge pages and
// /proc/self/maps are Linux's, and the race detector's shadow memory
// must stay off them (hugepage_linux.go).
func adviseHugePages() {}
