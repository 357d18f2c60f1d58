module gospaces/bench

go 1.22

require gospaces v0.0.0

replace gospaces => ../
