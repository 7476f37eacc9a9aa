package htmlparse

// AssertSameTree lets the external test package (the one that may
// import internal/web) run the in-package differential check.
var AssertSameTree = assertSameTree
