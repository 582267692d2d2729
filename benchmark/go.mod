module bpwrapper/benchmark

go 1.22

require bpwrapper v0.0.0

replace bpwrapper => ../
