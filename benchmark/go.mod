module semtree/benchmark

go 1.23

require semtree v0.0.0

replace semtree => ../
