module maybms/bench

go 1.24

require maybms v0.0.0

replace maybms => ../
