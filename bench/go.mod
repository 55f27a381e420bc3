module stdchk/bench

go 1.24.0

require stdchk v0.0.0

replace stdchk => ../
