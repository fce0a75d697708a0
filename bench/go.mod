module sdp/bench

go 1.22

require sdp v0.0.0

replace sdp => ../
