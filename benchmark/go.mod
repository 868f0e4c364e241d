module darco/benchmark

go 1.24

require darco v0.0.0

replace darco => ../
