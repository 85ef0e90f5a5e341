//go:build !layers

package main

// Without the "layers" tag nothing here imports frfc/internal/...: the
// end-to-end pass still builds and runs when a refactor has renamed what the
// layer pass binds, and the per-layer metrics read "missing".
const layersBuilt = false

func layerSingle(childConfig, *runResult) {}

func layerMicro(childConfig, *runResult) {}
