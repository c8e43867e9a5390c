module mdw/bench

go 1.22

require mdw v0.0.0

replace mdw => ../
