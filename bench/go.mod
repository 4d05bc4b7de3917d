module pgrid/bench

go 1.22

require pgrid v0.0.0

replace pgrid => ../
