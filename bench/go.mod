module gcbench/bench

go 1.22

require gcbench v0.0.0

replace gcbench => ../
