package ckdsl

// RandomSpec exposes randomSpec to the package's external tests.
var RandomSpec = randomSpec
