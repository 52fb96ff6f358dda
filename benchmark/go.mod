module knighter/benchmark

go 1.22

require knighter v0.0.0

replace knighter => ../
