module upcbh/benchmark

go 1.24

require upcbh v0.0.0

replace upcbh => ../
