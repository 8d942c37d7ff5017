module abred

go 1.23
