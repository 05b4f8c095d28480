// Package docscheck pins the documentation surface to the code it
// describes. Its tests are drift guards, run by the ordinary `go test
// ./...` CI step:
//
//   - every exported identifier in the core packages (the public pushpull
//     package, internal/engine, internal/store, internal/live,
//     internal/scenario) must carry a doc comment, and every one of those
//     packages must have a package comment;
//   - every counter in pushpull.MetricNames must be documented in
//     docs/OPERATIONS.md under both its registry name and its Prometheus
//     exposition name;
//   - every command-line flag pushpulld registers must be documented in
//     docs/OPERATIONS.md;
//   - every Test/Benchmark/Fuzz function and every backticked repo path
//     (internal/…, cmd/…, docs/…, examples/…, e2ebench/…) that README.md,
//     DESIGN.md or docs/OPERATIONS.md cite must exist in the tree.
//
// Adding a counter, a flag, or an exported symbol without documenting it,
// or renaming a test or deleting a file the docs cite, fails the build, so
// the operational docs cannot silently rot.
package docscheck
