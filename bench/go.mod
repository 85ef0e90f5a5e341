module frfc/bench

go 1.22

require frfc v0.0.0

replace frfc => ../
