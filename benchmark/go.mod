module spectra/benchmark

go 1.23

require spectra v0.0.0

replace spectra => ../
