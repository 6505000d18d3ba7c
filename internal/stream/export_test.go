package stream

// The toy domain and feed of the in-package tests, for shared_test.go
// (package stream_test, which may import the root package).
var (
	ToyLevels = toyLevels
	Feed      = feed
)
