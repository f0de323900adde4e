module dynplanbench

go 1.24

require dynplan v0.0.0

replace dynplan => ../
