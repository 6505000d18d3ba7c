// The driver's contract wants a compiled benchmark to be a package of its
// own with its own build file. The replace directive points the module at
// the checkout it sits in, whose internal packages it may import because
// its module path is below topkdedup; without that checkout it does not
// build.
module topkdedup/benchmark

go 1.22

require topkdedup v0.0.0

replace topkdedup => ../
