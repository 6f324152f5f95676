module anywheredb/bench

go 1.24

require anywheredb v0.0.0

replace anywheredb => ../
