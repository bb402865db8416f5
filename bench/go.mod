module metachaos/bench

go 1.22

require metachaos v0.0.0

replace metachaos => ../
