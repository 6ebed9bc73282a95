module github.com/querygraph/querygraph/bench

go 1.24

require github.com/querygraph/querygraph v0.0.0

replace github.com/querygraph/querygraph => ../
