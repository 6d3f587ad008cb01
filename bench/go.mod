module sdfm/bench

go 1.22

require sdfm v0.0.0

replace sdfm => ../
