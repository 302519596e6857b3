module github.com/fastfhe/fast/benchmark

go 1.22

require github.com/fastfhe/fast v0.0.0

replace github.com/fastfhe/fast => ../
