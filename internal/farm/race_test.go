//go:build race

package farm

// raceEnabled reports a -race build, for tests that trade coverage breadth
// for time under the detector.
const raceEnabled = true
