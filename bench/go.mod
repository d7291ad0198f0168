module ampsched/bench

go 1.22

require ampsched v0.0.0

replace ampsched => ../
